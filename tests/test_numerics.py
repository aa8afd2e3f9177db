"""The shared numerical kernels: bisection, Newton with its fallback, the
real roots of polynomials, the least-squares line, the log-space power, the
polynomial jet of phi and the window scan."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangencylab import numerics
from tangencylab.errors import NumericError
from tangencylab.model import _DIRECT_POW_LIMIT, _poly, _scale_power, _window_power, signed_power
from tangencylab.numerics import Polynomial, _bisect, line_fit, real_roots, root_count, solve_newton


def _counted(f):
    calls = []

    def g(t):
        calls.append(t)
        return f(t)

    return g, calls


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


# -- bisection ----------------------------------------------------------------


def test_bisect_rejects_unbracketed_root():
    with pytest.raises(NumericError) as info:
        _bisect(lambda t: t * t + 1.0, -1.0, 2.0)
    assert info.value.residual == 2.0


def test_bisect_returns_endpoint_roots_exactly():
    f, calls = _counted(lambda t: t - 0.25)
    assert _bisect(f, 0.25, 3.0) == 0.25
    assert _bisect(f, -3.0, 0.25) == 0.25
    assert len(calls) == 4  # the two ends of each bracket, nothing more


def test_bisect_runs_until_the_bracket_cannot_be_halved():
    # t*t - 2 has no floating-point zero, so only the collapse of the bracket
    # onto two neighbouring doubles stops the search.
    root = math.sqrt(2.0)
    f, calls = _counted(lambda t: t * t - 2.0)
    t = _bisect(f, 1.0, 2.0)
    assert abs(t - root) <= math.ulp(root)
    assert len(set(calls)) == len(calls)  # no midpoint evaluated twice


def test_bisect_compares_signs_without_underflow():
    # f(lo) * f(mid) underflows to 0 here; comparing signs still halves the
    # bracket towards the root at 0.6.
    t = _bisect(lambda t: 1e-200 * (t - 0.6), 0.0, 1.0)
    assert abs(t - 0.6) <= math.ulp(0.6)


def _halving_count(f, lo: float, hi: float) -> int:
    """Evaluations plain bisection spends on [lo, hi] until the bracket
    collapses: the reference the ITP steps are bounded by."""
    f_lo, f_hi = f(lo), f(hi)
    count = 2
    if f_lo == 0.0 or f_hi == 0.0:
        return count
    sign_lo = math.copysign(1.0, f_lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = f(mid)
        count += 1
        if f_mid == 0.0:
            break
        if math.copysign(1.0, f_mid) == sign_lo:
            lo = mid
        else:
            hi = mid
    return count


_EXHAUST_CASES = {
    "linear": lambda root: lambda t: 3.0 * (t - root),
    "flat then step": lambda root: lambda t: -1.0 if t < root else 1e-9,
    "exp(log) staircase": lambda root: lambda t: math.exp(math.log(t)) - root,
    "square minus two": lambda root: lambda t: t * t - 2.0,
}


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(sorted(_EXHAUST_CASES)),
    root=st.floats(min_value=1.0, max_value=2.0),
    below=st.floats(min_value=1e-12, max_value=0.9),
    above=st.floats(min_value=1e-12, max_value=3.0),
)
def test_exhaustive_search_costs_at_most_one_step_more_than_bisection(case, root, below, above):
    # Adversarial shapes for the ITP steps: exact interpolation, no slope and
    # lopsided values (interpolation lands next to one end every time), a
    # staircase that is noisy at the last bit, and a plain curve.
    f = _EXHAUST_CASES[case](root)
    lo, hi = root - below, root + above
    if case == "square minus two":
        lo, hi = min(lo, 1.4), max(hi, 1.5)
    counted, calls = _counted(f)
    t = _bisect(counted, lo, hi)
    assert len(calls) <= _halving_count(f, lo, hi) + 1
    # an exact zero, or one end of two neighbouring doubles with a sign change
    f_t = f(t)
    assert f_t == 0.0 or any(
        math.copysign(1.0, f_t) != math.copysign(1.0, f(side))
        for side in (math.nextafter(t, -math.inf), math.nextafter(t, math.inf))
    )


# -- real roots of polynomials -------------------------------------------------


def _sturm(p: Polynomial):
    """The sign changes of p's Sturm sequence at a point.  Their drop from
    lo to hi counts the distinct real roots of p in (lo, hi] (Sturm's
    theorem): the oracle for the roots isolated between critical points."""
    p = p.trimmed()
    chain, nxt = [p], p.derivative()
    while nxt:  # each member is minus the remainder of the two before it
        chain.append(nxt)
        rem = list(chain[-2])
        while len(rem) >= len(nxt):
            q = rem.pop() / nxt[-1]  # the cancelled leading term is dropped
            for i in range(1, len(nxt)):
                rem[-i] -= q * nxt[-1 - i]
        nxt = Polynomial(-r for r in rem).trimmed()

    def changes(x: float) -> int:
        signs = [v > 0.0 for v in (q(x) for q in chain) if v != 0.0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
    b=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
)
def test_polynomial_product_sums_each_coefficient_in_index_order(a, b):
    # out[k] adds a[i] * b[k - i] for ascending i, as a double loop over the
    # index pairs does, so the product's bits are the loop's bits.
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    assert [_bits(c) for c in Polynomial(a) * Polynomial(b)] == [_bits(c) for c in out]


@pytest.mark.parametrize(
    "p, lo, hi, expected",
    [
        # p' is exactly 0 at hi, where p is exactly 0: one root, not two
        (Polynomial((1.0, -2.0, 1.0)), 0.0, 1.0, [1.0]),
        # ... and at lo, which the half-open interval leaves out
        (Polynomial((1.0, -2.0, 1.0)), 1.0, 2.0, []),
        # a double root inside, where p is exactly 0 at the zero of p'
        (Polynomial((0.25, -1.0, 1.0)), 0.0, 2.0, [0.5]),
        # a double root next to which p keeps its sign: no sign change
        (Polynomial((0.08000000000000002, -0.76, 1.6, 1.0)), 0.0, 2.0, []),
        # simple roots at both ends: hi is in, lo is out
        (Polynomial((-1.0, 0.0, 1.0)), -1.0, 1.0, [1.0]),
        (Polynomial((0.0, -1.0, 0.0, 1.0)), -2.0, 2.0, [-1.0, 0.0, 1.0]),  # one root per piece
        (Polynomial((-1.0, 2.0, 0.0)), 0.0, 1.0, [0.5]),  # trailing zero coefficients
        (Polynomial((2.0,)), -1.0, 1.0, []),  # a constant
        (Polynomial((0.0, 0.0)), -1.0, 1.0, []),  # the zero polynomial
        (Polynomial(()), -1.0, 1.0, []),
    ],
)
def test_real_roots_at_piece_ends_and_degenerate_polynomials(p, lo, hi, expected):
    assert real_roots(p, lo, hi) == expected
    assert root_count(p, lo, hi) == len(expected)


def test_real_roots_misses_only_roots_without_sign_change():
    # The double root 0.2 of (s - 0.2)^2 (s + 2) above: Sturm counts it as
    # a distinct root, while p is positive at the zero of p' next to it.
    p = Polynomial((0.08000000000000002, -0.76, 1.6, 1.0))
    (knot,) = real_roots(p.derivative(), 0.0, 2.0)
    assert p(knot) > 0.0
    assert _sturm(p)(0.0) - _sturm(p)(2.0) == 1


@st.composite
def _rooted_polynomials(draw):
    """(p, lo, hi): a polynomial of degree 1 to 6 built from known simple
    roots m * 10^e, one per decade e in [-6, 0] and m in [1, 5] (so roots
    differ by a factor of 2 at least), times a leading coefficient down to
    1e-40, as the fold polynomials of deep levels have; the interval holds
    every root.  Degree 1 is the shape of a deflated cap."""
    exponents = draw(st.lists(st.integers(-6, 0), min_size=1, max_size=6, unique=True))
    roots = [draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1.0, 5.0)) * 10.0**e for e in exponents]
    lead = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-40.0, 2.0))
    p = Polynomial((lead,))
    for r in roots:
        p = p * Polynomial((-r, 1.0))
    reach = 3.0 * max(map(abs, roots))
    return p, -reach * draw(st.floats(1.0, 2.0)), reach * draw(st.floats(1.0, 2.0))


@settings(max_examples=400, deadline=None)
@given(case=_rooted_polynomials())
def test_polished_roots_are_sign_changes_the_sturm_count_predicts(case):
    # Each polished root is an exact zero of p, or a double where p changes
    # sign against a neighbouring double: the one stop rule of the searches.
    p, lo, hi = case
    roots = real_roots(p, lo, hi)
    changes = _sturm(p)
    assert roots == sorted(set(roots))
    assert len(roots) == changes(lo) - changes(hi)
    for r in roots:
        f_r = p(r)
        assert f_r == 0.0 or any(
            f_side != 0.0 and (f_side > 0.0) != (f_r > 0.0)
            for f_side in (p(math.nextafter(r, -math.inf)), p(math.nextafter(r, math.inf)))
        )


@settings(max_examples=200, deadline=None)
@given(case=_rooted_polynomials())
def test_root_count_is_the_number_of_roots_and_the_sturm_count(case):
    # On polynomials with simple roots every root changes sign, so the
    # sign-changing roots are the distinct roots Sturm's theorem counts.
    p, lo, hi = case
    changes = _sturm(p)
    assert root_count(p, lo, hi) == len(real_roots(p, lo, hi)) == changes(lo) - changes(hi)


# -- Newton with bisection fallback ------------------------------------------


def test_newton_falls_back_when_a_step_leaves_the_bracket(monkeypatch):
    fallbacks = []
    original = numerics._bisect_or_fail

    def spy(*args):
        fallbacks.append(args)
        return original(*args)

    monkeypatch.setattr(numerics, "_bisect_or_fail", spy)

    # From x0 = 3 the Newton step on atan(x - 1) lands at -2.5, outside the
    # bracket, so the root must come from bisection.
    def f(x):
        return math.atan(x - 1.0)

    def fprime(x):
        return 1.0 / (1.0 + (x - 1.0) ** 2)

    root = solve_newton(f, fprime, 3.0, tol=1e-12, bracket=(-2.0, 4.0))
    assert len(fallbacks) == 1
    assert abs(f(root)) <= 1e-12


def test_newton_fallback_stalls_above_an_unreachable_tolerance():
    # Newton settles next to sqrt(2), where no double reaches |f| <= 1e-20;
    # the fallback's collapsed bracket is a failure that reports the residual
    # there.
    with pytest.raises(NumericError, match="stalled") as info:
        solve_newton(lambda t: t * t - 2.0, lambda t: 2.0 * t, 1.5, tol=1e-20, bracket=(1.0, 2.0))
    assert 0.0 < info.value.residual < 1e-15


def test_newton_fallback_returns_the_bracket_exhausted_root():
    # A zero derivative sends the first step to the fallback, which runs the
    # bracket down to the double of 1/3 even though tol would accept a
    # point 1e-3 away.
    def f(x):
        return x - 1.0 / 3.0

    root = solve_newton(f, lambda x: 0.0, 0.5, tol=1e-3, bracket=(0.0, 1.0))
    assert root == 1.0 / 3.0
    assert f(math.nextafter(root, 0.0)) < 0.0 < f(math.nextafter(root, 1.0))


def test_newton_fallback_without_sign_change_reports_residual():
    # Newton leaves [0, 1] from x0 = 0.5 and f has no sign change there; the
    # error carries the residual Newton stopped at, f(0.5) = 1.25.
    with pytest.raises(NumericError, match="no sign change") as info:
        solve_newton(lambda x: x * x + 1.0, lambda x: 2.0 * x, 0.5, tol=1e-12, bracket=(0.0, 1.0))
    assert info.value.residual == 1.25


# -- least-squares line -------------------------------------------------------


@st.composite
def _line_data(draw):
    """4-40 points with distinct xs spread over at least 1 inside [-30, 30],
    the range of the callers' abscissas (levels n, n*ln|lam|, log x), on a
    line with up to unit jitter, like m(n)'s staircase."""
    xs = draw(st.lists(st.floats(-30.0, 30.0), min_size=4, max_size=40, unique=True).filter(lambda v: max(v) - min(v) >= 1.0))
    slope, intercept = draw(st.floats(-70.0, 70.0)), draw(st.floats(-50.0, 50.0))
    jitter = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(xs), max_size=len(xs)))
    return xs, [slope * x + intercept + j for x, j in zip(xs, jitter)]


@settings(max_examples=300, deadline=None)
@given(_line_data())
def test_line_fit_agrees_with_polyfit(data):
    # np.polyfit is the oracle.  Each value is compared relative to the
    # magnitudes it is formed from, since a slope or intercept near 0 is a
    # difference of larger terms in either method: the largest |y| over the
    # spread of the xs for the slope, and that |y| plus the slope's scale
    # times the mean x for the intercept.  Below the smallest normal double,
    # subnormal rounding sets the difference.
    xs, ys = data
    slope, intercept = line_fit(np.array(xs), np.array(ys))
    want_slope, want_intercept = np.polyfit(xs, ys, 1)
    y_size = max(map(abs, ys))
    slope_scale = max(abs(want_slope), y_size / np.std(xs))
    intercept_scale = max(abs(want_intercept), y_size + slope_scale * abs(np.mean(xs)))
    tiny = np.finfo(float).tiny
    assert abs(slope - want_slope) <= 1e-12 * slope_scale + tiny
    assert abs(intercept - want_intercept) <= 1e-12 * intercept_scale + tiny


def test_line_fit_is_exact_on_exactly_linear_data():
    xs = [float(x) for x in range(8, 19)]
    assert line_fit(xs, [3.0 * x - 7.0 for x in xs]) == (3.0, -7.0)
    assert line_fit(xs, xs) == (1.0, 0.0)


# -- log-space power ------------------------------------------------------------


def _reference_signed_power(base: float, k: int) -> float:
    """base**k written out on its own: direct for small |k|, log space with
    saturation beyond."""
    if k == 0:
        return 1.0
    if abs(k) <= _DIRECT_POW_LIMIT:
        return base**k
    sign = -1.0 if (base < 0.0 and k % 2 != 0) else 1.0
    t = k * math.log(abs(base))
    if t > 709.0:
        return sign * math.inf
    if t < -745.0:
        return sign * 0.0
    return sign * math.exp(t)


@pytest.mark.parametrize("base", [0.3, -0.3, 1.02, -1.02])
def test_signed_power_is_scale_power_of_one(base):
    for k in list(range(-60, 61)) + [645, -645]:
        expected = _bits(_reference_signed_power(base, k))
        assert _bits(signed_power(base, k)) == expected, k
        assert _bits(_scale_power(1.0, base, k)) == expected, k


# -- polynomial jet ---------------------------------------------------------------

TERMS = ((2, 3, 1.5), (4, 0, -0.7), (0, 2, 2.0), (1, 1, 0.3))


def test_poly_partials_match_hand_derivatives():
    x, y = 0.7, -1.3
    # p = 1.5 x^2 y^3 - 0.7 x^4 + 2 y^2 + 0.3 x y
    expected = {
        (0, 0): 1.5 * x**2 * y**3 - 0.7 * x**4 + 2.0 * y**2 + 0.3 * x * y,
        (1, 0): 3.0 * x * y**3 - 2.8 * x**3 + 0.3 * y,
        (0, 1): 4.5 * x**2 * y**2 + 4.0 * y + 0.3 * x,
        (2, 0): 3.0 * y**3 - 8.4 * x**2,
        (1, 1): 9.0 * x * y**2 + 0.3,
        (0, 2): 9.0 * x**2 * y + 4.0,
        (2, 2): 18.0 * y,
    }
    for (dx, dy), value in expected.items():
        assert _poly(TERMS, x, y, dx=dx, dy=dy) == pytest.approx(value, rel=1e-13, abs=1e-13), (dx, dy)


def test_poly_rounds_like_the_written_out_partials():
    # Derivative factors multiply the coefficient one at a time, so
    # coef * i * (i - 1) rounds as written, not as coef * (i * (i - 1)):
    # 0.7 * 6 * 5 and 0.1 * 3 * 3 each differ from the one-shot product.
    x, y = 0.37, 1.9
    terms = ((3, 3, 0.1), (6, 2, 0.7), (2, 3, 1.0 / 3.0), (5, 1, -0.7))
    assert _poly(terms, x, y) == sum(c * x**i * y**j for i, j, c in terms)
    assert _poly(terms, x, y, dx=1) == sum(c * i * x ** (i - 1) * y**j for i, j, c in terms if i > 0)
    assert _poly(terms, x, y, dy=1) == sum(c * j * x**i * y ** (j - 1) for i, j, c in terms if j > 0)
    assert _poly(terms, x, y, dx=2) == sum(c * i * (i - 1) * x ** (i - 2) * y**j for i, j, c in terms if i > 1)
    assert _poly(terms, x, y, dx=1, dy=1) == sum(
        c * i * j * x ** (i - 1) * y ** (j - 1) for i, j, c in terms if i > 0 and j > 0
    )
    assert _poly(terms, x, y, dy=2) == sum(c * j * (j - 1) * x**i * y ** (j - 2) for i, j, c in terms if j > 1)


def test_poly_on_arrays_matches_scalars():
    # numpy's array powers may round differently from Python's float pow.
    xs = np.linspace(-0.3, 0.3, 7)
    ys = np.linspace(0.0, 0.02, 7)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = _poly(TERMS, gx, gy)
    for a in range(7):
        for b in range(7):
            assert grid[a, b] == pytest.approx(_poly(TERMS, float(xs[a]), float(ys[b])), rel=1e-14, abs=1e-18)
    assert _poly((), 0.5, 0.5) == 0.0


# -- window scan ------------------------------------------------------------------

MU = 1.02
U = 1.0 + (MU - 1.0)  # 1 + eps, as ModelSystem computes it
WINDOWS = {
    "return window": (U * U, U * U * U, 1),
    "fundamental domain": (1.0 / MU, 1.0, 0),
}


def _brute_window(x: float, lo: float, hi: float, k_min: int) -> int | None:
    for k in range(k_min, 3000):
        if lo < _scale_power(x, MU, k) <= hi:
            return k
    return None


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=1e-12, max_value=10.0),
    st.sampled_from(sorted(WINDOWS)),
)
def test_window_power_matches_brute_force_scan(x, window):
    lo, hi, k_min = WINDOWS[window]
    assert _window_power(x, MU, lo, hi, k_min) == _brute_window(x, lo, hi, k_min)
