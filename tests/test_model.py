import importlib
import importlib.util
import inspect
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tangencylab as tl
from tangencylab import model
from tangencylab.model import _MEMBERSHIP_TOL, signed_power, _scale_power

_ROOT = Path(__file__).resolve().parents[1]


def test_saddle_map_is_diagonal(ref):
    x, y = tl.apply_linear(ref, (0.5, 0.5), 1)
    assert x == 0.5 * 1.02
    assert y == 0.5 * 0.3


def test_saddle_map_iterates(ref):
    p = (0.25, 1.5)
    q = p
    for _ in range(7):
        q = tl.apply_linear(ref, q, 1)
    x7, y7 = tl.apply_linear(ref, p, 7)
    assert math.isclose(x7, q[0], rel_tol=1e-12)
    assert math.isclose(y7, q[1], rel_tol=1e-12)


def test_transition_sends_tangency_to_image(ref):
    assert tl.apply_phi(ref, (1.0, 0.0)) == (0.0, 1.0)


def test_transition_cubic_sample(ref):
    x, y = tl.apply_phi(ref, (1.1, 0.0))
    # px = c*(0.1)^3, py = 1 + d*0.1
    assert x == pytest.approx(1e-3, rel=1e-12)
    assert y == pytest.approx(0.9, rel=1e-12)


def test_deep_power_underflows_to_zero():
    # lam^645 is ~1e-338 in logs; the honest double is 0.0, not an exception
    assert signed_power(0.3, 645) == 0.0
    assert _scale_power(0.998, 0.3, 645) == 0.0


def test_signed_power_tracks_sign():
    assert signed_power(-0.3, 3) < 0.0
    assert signed_power(-0.3, 4) > 0.0


def test_saturation_points():
    # the double range in log space, as every log-space power cuts it
    assert model._saturated_exp(model._LOG_MAX) == math.exp(709.0) < math.inf
    assert model._saturated_exp(math.nextafter(model._LOG_MAX, math.inf)) == math.inf
    assert model._saturated_exp(model._LOG_MIN) == math.exp(-745.0) > 0.0
    assert model._saturated_exp(math.nextafter(model._LOG_MIN, -math.inf)) == 0.0
    assert model._saturated_exp(-math.inf) == 0.0 and model._saturated_exp(math.inf) == math.inf


def test_flips_sign_on_ints_and_arrays():
    assert [bool(model._flips_sign(base, k)) for base, k in ((-0.3, 3), (-0.3, -3), (-0.3, 4), (0.3, 3))] == [True, True, False, False]
    assert model._flips_sign(-1.02, np.array([1.0, 2.0, -3.0, 0.0])).tolist() == [True, False, True, False]
    assert not model._flips_sign(1.02, np.array([1.0, 3.0])).any()


@pytest.mark.parametrize("base, k", [(1.02, 400), (-1.02, 401), (0.3, -600), (-0.3, 20)])
def test_scale_powers_saturate_as_the_scalar_power(base, k):
    # np.exp overflows only past 709.78 and reaches 0.0 only below -745.13:
    # the array power cuts at _LOG_MAX and _LOG_MIN like the scalar one, and
    # keeps its signs and zeros.  Elsewhere the two differ by numpy's
    # rounding of log and exp.
    shift = k * math.log(abs(base))
    logs = [709.5, 708.9, -745.05, -744.9, -300.0, 0.0]
    values = [sign * math.exp(t - shift) for t in logs if t - shift < 709.0 for sign in (1.0, -1.0)] + [0.0]
    array = model._scale_powers(np.array(values), base, k)
    for v, a in zip(values, array):
        s = _scale_power(v, base, k)
        assert (math.isinf(a), a == 0.0, math.copysign(1.0, a) if a else 0.0) == (math.isinf(s), s == 0.0, math.copysign(1.0, s) if s else 0.0), v
        assert a == pytest.approx(s, rel=1e-12, abs=1e-300)


def test_in_uq_on_arrays_at_the_edge(ref):
    # The last double inside U(q) and the first outside, along either axis:
    # the array test agrees with the scalar one point by point.
    edge = ref.uq_half_width + _MEMBERSHIP_TOL
    out = math.nextafter(edge, math.inf)
    points = [(1.0, edge), (1.0, -edge), (1.0, out), (1.0, -out), (1.0 + edge, 0.0), (1.0 - edge, 0.0), (1.0 + 2.0 * out, 0.0)]
    xs, ys = np.array(points).T
    got = ref.in_uq((xs, ys))
    assert got.tolist() == [ref.in_uq(p) for p in points]
    assert got.tolist()[:4] == [True, True, False, False] and not got[-1]


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=1.0),
    st.integers(min_value=0, max_value=40),
)
def test_scale_power_matches_direct_product(x, k):
    direct = x * 1.02**k
    assert _scale_power(x, 1.02, k) == pytest.approx(direct, rel=1e-12)


def test_validate_reference_passes(ref):
    rep = tl.validate(ref)
    assert rep.ok
    names = [e.name for e in rep.entries]
    assert names == [
        "eigenvalues",
        "a_nonzero",
        "d_nonzero",
        "c_nonzero",
        "EX1",
        "H1_jet",
        "H2_jet",
        "tau_upper",
        "expansion_balance",
        "sign_case",
    ]


def test_validate_names_degenerate_vertical_tangency():
    sys = tl.make_system(b=0.0)
    rep = tl.validate(sys)
    failed = {e.name for e in rep.entries if not e.passed}
    assert "EX1" in failed
    assert not rep.ok


def test_validate_rejects_unbalanced_expansion():
    rep = tl.validate(tl.gate_breaker_system())
    failed = {e.name for e in rep.entries if not e.passed}
    assert "expansion_balance" in failed


def test_validate_flags_forbidden_jet_terms():
    sys = tl.make_system(h1_terms=((1, 0, 1.0),))
    rep = tl.validate(sys)
    failed = {e.name for e in rep.entries if not e.passed}
    assert "H1_jet" in failed


def test_tau_bounds_reference(ref):
    tau0, tau1 = tl.tau_bounds(ref)
    assert tau0 == pytest.approx(1.0, rel=1e-9)
    assert tau1 == pytest.approx(29.602645788864137, rel=1e-12)
    # the bound tau1 < 1/eps is what validate() checks
    assert tau1 < 1.0 / ref.epsilon


def test_tau_bound_fails_for_wide_expansion():
    rep = tl.validate(tl.wide_expansion_system())
    failed = {e.name for e in rep.entries if not e.passed}
    assert "tau_upper" in failed


def test_seed_must_be_positive():
    with pytest.raises(tl.DomainError):
        tl.make_system(seed_coeffs=(-0.5,))


def test_eigenvalues_must_be_saddle():
    rep = tl.validate(tl.make_system(lam=1.5))
    assert not rep.ok
    assert not rep.entries[0].passed


def test_chart_exit_detected(ref):
    # expanding (1.5, 0) leaves U(p) = [-2,2]^2 after f^k multiplies past 2
    idx = tl.chart_exit_index(ref, (1.5, 0.0), 40)
    assert idx is not None
    assert 1.5 * 1.02 ** (idx - 1) <= 2.0 < 1.5 * 1.02**idx


def _exit_by_walk(sys, point, k):
    """The chart exit as a walk over the whole orbit segment: the reference
    the closed form in chart_exit_index must agree with."""
    for i in range(1, k + 1):
        if not sys.in_chart(tl.apply_linear(sys, point, i)):
            return i
    return None


def _signed(magnitudes):
    return st.tuples(st.sampled_from((-1.0, 1.0)), magnitudes).map(lambda pair: pair[0] * pair[1])


@settings(max_examples=200, deadline=None)
@given(
    lam=_signed(st.floats(0.05, 0.95) | st.floats(1.05, 3.0)),
    mu=_signed(st.floats(1.001, 3.0)),
    x=st.just(0.0) | _signed(st.floats(-12.0, math.log10(3.0)).map(lambda e: 10.0**e)),
    y=st.floats(-3.0, 3.0),
    k=st.integers(0, 3000),
)
def test_chart_exit_matches_the_walk(lam, mu, x, y, k):
    # |lam| > 1 makes the y side grow too; |lam y| > 2 leaves at step 1
    sys = tl.make_system(lam=lam, mu=mu)
    assert tl.chart_exit_index(sys, (x, y), k) == _exit_by_walk(sys, (x, y), k)


@pytest.mark.parametrize("mu", (1.02, -1.7, 3.0))
def test_chart_exit_ties_match_the_walk(mu):
    # x one ulp either side of w / |mu|^i puts |mu^i x| on the membership
    # edge w = half width + tolerance at step i, where a log estimate is
    # most likely off by one
    sys = tl.make_system(mu=mu)
    w = sys.chart_half_width + _MEMBERSHIP_TOL
    for i in range(1, 201):
        for x in (math.nextafter(w / abs(mu) ** i, -math.inf), math.nextafter(w / abs(mu) ** i, math.inf)):
            for k in (i - 1, i, i + 1):
                assert tl.chart_exit_index(sys, (x, 0.5), k) == _exit_by_walk(sys, (x, 0.5), k), (i, x, k)


def test_chart_exit_costs_three_iterates(ref, monkeypatch):
    # the reference return rides 595 iterates; a deep exit sits near step 384
    steps = []
    real = model.apply_linear
    monkeypatch.setattr(model, "apply_linear", lambda sys, p, k: steps.append(k) or real(sys, p, k))
    assert tl.chart_exit_index(ref, tl.apply_phi(ref, (ref.mu, 0.0)), 595) is None
    assert len(steps) <= 3
    steps.clear()
    idx = tl.chart_exit_index(ref, (1e-3, 0.5), 3000)
    assert idx == _exit_by_walk(ref, (1e-3, 0.5), 3000) == 384
    assert steps == [1, 383, 384]


def test_jacobian_phi_matches_central_differences():
    # allowed remainder terms in both components, so every partial has an
    # H1 or H2 part: y^2 and x^2 y in H1, x^2 and x y in H2
    sys = tl.make_system(h1_terms=((0, 2, 0.7), (2, 1, -1.3)), h2_terms=((2, 0, 0.4), (1, 1, -0.9)))
    h = 1e-6
    for p in ((1.05, 0.02), (0.85, -0.1), (1.2, 0.15)):
        jac = tl.jacobian_phi(sys, p)
        for col, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
            plus = tl.apply_phi(sys, (p[0] + dx, p[1] + dy))
            minus = tl.apply_phi(sys, (p[0] - dx, p[1] - dy))
            for row in range(2):
                assert jac[row, col] == pytest.approx((plus[row] - minus[row]) / (2.0 * h), rel=1e-8, abs=1e-9)


def _tau_bounds_uncached(sys):
    model._TAU_CACHE.pop(sys, None)
    try:
        return tl.tau_bounds(sys)
    except tl.WrongQuadrantError:
        return tl.WrongQuadrantError


_H1_ALLOWED = ((0, 2), (2, 1), (1, 2), (0, 3), (4, 0), (2, 2))
_H2_ALLOWED = ((2, 0), (1, 1), (0, 2), (3, 0))


def _jet_terms(allowed):
    return st.lists(
        st.tuples(st.sampled_from(allowed), st.floats(-3.0, 3.0)).map(lambda t: (*t[0], t[1])),
        min_size=1,
        max_size=3,
    ).map(tuple)


def _grid_range(sys):
    """Least and largest pr_x(phi) on a 256 x 256 grid over R_eps, by numpy,
    whose power does not round like libm's."""
    rect = tl.return_rectangle(sys.epsilon)
    xs = np.linspace(rect.x_lo, rect.x_hi, 256) - 1.0
    ys = np.linspace(rect.y_lo, rect.y_hi, 256)
    px = model._phi_parts(sys, *np.meshgrid(xs, ys, indexing="ij"))[0]
    return float(px.min()), float(px.max())


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(1.005, 1.08),
    c=_signed(st.floats(0.3, 3.0)),
    h1=_jet_terms(_H1_ALLOWED),
    h2=_jet_terms(_H2_ALLOWED),
)
@example(mu=1.05, c=0.4, h1=((4, 0, -2.4),), h2=((2, 0, 0.5),))
@example(mu=1.023669347892149, c=-1.0, h1=((0, 2, 0.0),), h2=((2, 0, 0.0),))
def test_tau_bounds_are_the_exact_range(mu, c, h1, h2):
    # |b| X + |d/dy H1| stays below 0.9 < |a| over these jets, so the
    # certificate holds and the range is exact: a 256 x 256 grid lies inside
    # it up to numpy's rounding, and both ends are attained at candidates.
    # numpy's x**3 rounds apart from libm's by an ulp of the terms, not of
    # the result, so the slack is 4 ulps of the range's largest magnitude:
    # in the second example the top-left corner's value, about -eps^4, is
    # eps^3 - eps^4 - eps^3 and the two roundings differ by 32 of its ulps.
    # In the first, c x^3 - 2.4 x^4 peaks at x = 0.125 inside the bottom
    # edge [0.05, 0.1576], and the top edge peaks next to it: tau1 is read
    # there, not at a corner
    sys = tl.make_system(mu=mu, c=c, h1_terms=h1, h2_terms=h2)
    eps = sys.epsilon
    values = [model._phi_parts(sys, x, y)[0] for x, y in model._tau_candidates(sys, tl.return_rectangle(eps))]
    lo, hi = min(values), max(values)
    grid_lo, grid_hi = _grid_range(sys)
    slack = 4.0 * math.ulp(max(abs(lo), abs(hi)))
    assert lo - slack <= grid_lo and grid_hi <= hi + slack
    bounds = _tau_bounds_uncached(sys)
    if lo <= 0.0 <= hi:
        assert bounds is tl.WrongQuadrantError
    else:
        assert bounds == tuple(v / eps**3 for v in ((lo, hi) if lo > 0.0 else (-hi, -lo)))


def test_tau_bounds_reference_bits(ref, tilted):
    # the reference extremes are corners: (c, a + 27c) eps^3 up to eps terms;
    # the exact range is at most a few phi evaluations per system
    assert tuple(map(float.hex, _tau_bounds_uncached(ref))) == ("0x1.0000000000000p+0", "0x1.d9a46fe923e5cp+4")
    for sys in (ref, tilted):
        assert len(model._tau_candidates(sys, tl.return_rectangle(sys.epsilon))) <= 12


def test_tau_bounds_certificate_failure():
    # 400 x^2 y in H1 adds up to 400 X^2 = 1.5 to d/dy pr_x(phi) on R_eps,
    # more than |a| = 1, so no sign of the y partial is certified
    sys = tl.make_system(h1_terms=((2, 1, 400.0),))
    with pytest.raises(tl.InconclusiveError, match="interior extremum"):
        _tau_bounds_uncached(sys)
    with pytest.raises(tl.InconclusiveError):
        tl.tau_bounds(sys)
    assert sys not in model._TAU_CACHE
    entry = {e.name: e for e in tl.validate(sys).entries}["tau_upper"]
    assert (entry.passed, entry.measured) == (False, "undefined")
    assert "interior extremum" in entry.detail


def test_tau_bounds_stored_per_system(ref):
    # systems compare by value, so an equal system gets the stored pair
    assert tl.tau_bounds(ref) is tl.tau_bounds(tl.make_system())


def test_tau_bounds_peak_memory():
    # one uncached call: 16-row blocks instead of 256 x 256 temporaries
    sys = tl.make_system(h1_terms=((0, 2, 0.7), (2, 1, -1.3)), h2_terms=((2, 0, 0.4),))
    model._TAU_CACHE.pop(sys, None)
    tracemalloc.start()
    try:
        tl.tau_bounds(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


def _traced_names() -> list[tuple[object, str]]:
    """(module, name) of every function or method whose calls, times or
    errors BENCHMARK.json's per-layer metrics read; derived metrics (the
    layer totals, ratios and the tracer's own counts) name none."""
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
    out = []
    for metric in spec["per_layer"]:
        *qual, field = metric["name"].split(".")
        if len(qual) < 2 or field not in ("calls", "incl_s", "self_s", "errors"):
            continue
        pair = (importlib.import_module(f"tangencylab.{qual[0]}"), ".".join(qual[1:]))
        if pair not in out:
            out.append(pair)
    return out


def _tracer_methods() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_tracer", _ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.METHODS


@pytest.mark.parametrize("module, name", _traced_names())
def test_memoized_functions_stay_plain_functions(module, name):
    # benchmarks/tracer.py wraps the plain public functions of each module
    # and the methods in its METHODS, and BENCHMARK.json's per-layer metrics
    # read them by name: a deleted or renamed function, or a functools
    # decorator (which is why build_sn and tau_bounds memoize in module
    # dicts), would fail `benchmarks/run.py --trace 1`.
    if "." in name:
        assert f"{module.__name__.rsplit('.', 1)[1]}.{name}" in _tracer_methods()
        cls, method = name.split(".")
        assert inspect.isfunction(vars(getattr(module, cls))[method])
        return
    fn = getattr(module, name)
    assert inspect.isfunction(fn) and not name.startswith("_")
    assert fn.__module__ == module.__name__
