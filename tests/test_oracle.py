"""S_n metrics against a 50-digit evaluation of the cubic closed forms.

With a flat seed y0 = z0 and no H1 or H2 terms, the folded curve is
X(t) = a*y_n + b*y_n*t + c*t^3 and Y(t) = 1 + d*t + e*y_n, y_n = lam^n z0.
Its tangencies are t_pm = +-sqrt(-b*y_n / (3c)), its caps sit at -2*t_mp,
so the width is 4|c| t_+^3, the height 4|d| t_+ and the distance to the
stable axis the smaller of X(t_pm).  mpmath evaluates these at 50 digits
from the same double inputs.
"""

import pytest

import tangencylab as tl
from tangencylab.rects import fold_rectangles

mpmath = pytest.importorskip("mpmath")


def _closed_forms(sys, n):
    mp = mpmath.mp
    with mpmath.workdps(50):
        tr = sys.transition
        a, b, c, d = (mp.mpf(v) for v in (tr.a, tr.b, tr.c, tr.d))
        y_n = mp.mpf(sys.lam) ** n * mp.mpf(sys.seed.z0)
        t_plus = mp.sqrt(-b * y_n / (3 * c))
        xs = [a * y_n + b * y_n * t + c * t**3 for t in (-t_plus, t_plus)]
        return {"width": 4 * abs(c) * t_plus**3, "height": 4 * abs(d) * t_plus, "dist": min(xs)}


def _sweep_instance(bench_workloads):
    inst = bench_workloads.sweep_instances(0)[0]
    return tl.make_system(
        lam=inst["lambda"], mu=inst["mu"], a=inst["a"], b=inst["b"], c=inst["c"], d=inst["d"], seed_coeffs=(inst["z0"],)
    )


@pytest.mark.parametrize("system", ["reference", "sweep"])
def test_sn_metrics_match_the_closed_forms_to_1e12(system, ref, bench_workloads):
    sys = ref if system == "reference" else _sweep_instance(bench_workloads)
    assert not sys.transition.h1_terms and not sys.transition.h2_terms and len(sys.seed.coeffs) == 1
    levels = []
    for S in fold_rectangles(sys, 8, sys.n_max):
        want = _closed_forms(sys, S.n)
        for name, value in want.items():
            got = getattr(S, name)
            assert abs(got - float(value)) <= 1e-12 * float(value), (S.n, name, got, float(value))
        levels.append(S.n)
    assert levels == list(range(8, sys.n_max + 1))
