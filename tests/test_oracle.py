"""S_n metrics against a 50-digit evaluation of the cubic closed forms, and
the cascade's log-space box heights against a 1,500-digit evaluation.

With a flat seed y0 = z0 and no H1 or H2 terms, the folded curve is
X(t) = a*y_n + b*y_n*t + c*t^3 and Y(t) = 1 + d*t + e*y_n, y_n = lam^n z0.
Its tangencies are t_pm = +-sqrt(-b*y_n / (3c)), its caps sit at -2*t_mp,
so the width is 4|c| t_+^3, the height 4|d| t_+ and the distance to the
stable axis the smaller of X(t_pm).  mpmath evaluates these at 50 digits
from the same double inputs.
"""

import json
import math
from pathlib import Path

import pytest

import tangencylab as tl
from tangencylab import cli
from tangencylab.cascade import _SAMPLES, _lobatto, box_metrics
from tangencylab.rects import fold_rectangles

mpmath = pytest.importorskip("mpmath")

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reference.json"


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


# The cascade's boxes at 1,500 digits.  A box lies about |lam|^(i_n) above
# the unstable axis (1e-401 at the reference witness) and its heights go
# down to 1e-657 here, so only mpmath's unbounded exponent holds them.  The
# oracle maps base points through the box's word with phi written out from
# the model's formula, finds the top and delta points over each bottom
# sample's image abscissa by secant steps, and measures H and L as plain
# differences of ordinates: no transport, no Jacobian.
_BOX_DIGITS = 1500


def _phi_mp(tr, x, y):
    # phi(1 + x, y) = (a y + b x y + c x^3 + H1, 1 + d x + e y + H2)
    h1 = sum(coef * x**i * y**j for i, j, coef in tr.h1_terms)
    h2 = sum(coef * x**i * y**j for i, j, coef in tr.h2_terms)
    return tr.a * y + tr.b * x * y + tr.c * x**3 + h1, 1 + tr.d * x + tr.e * y + h2


def _word_mp(sys, atoms, point):
    mp = mpmath.mp
    x, y = (mp.mpf(v) for v in point)
    for atom in atoms:
        if atom[0] == "linear":
            x, y = x * mp.mpf(sys.mu) ** atom[1], y * mp.mpf(sys.lam) ** atom[1]
        else:
            x, y = _phi_mp(sys.transition, x - 1, y)
    return x, y


def _ordinate_over(sys, atoms, xi, level, x_target):
    # the image ordinate of the base segment at height ``level`` over the
    # image abscissa x_target, by secant steps on the base abscissa from xi
    mp = mpmath.mp
    tol = mp.mpf(10) ** (-_BOX_DIGITS + 20)
    a, b = mp.mpf(xi), mp.mpf(xi) * (1 + mp.mpf(10) ** -30)
    f_a, f_b = (_word_mp(sys, atoms, (v, level))[0] - x_target for v in (a, b))
    for _ in range(40):
        if f_b == 0 or abs(b - a) <= tol * abs(b):
            break
        a, b, f_a = b, b - f_b * (b - a) / (f_b - f_a), f_b
        f_b = _word_mp(sys, atoms, (b, level))[0] - x_target
    else:
        raise AssertionError("secant steps did not converge")
    return _word_mp(sys, atoms, (b, level))[1]


def _oracle_logs(sys, box):
    # (log10 H, log10 L): the largest fiber length and clearance over the
    # images of the bottom edge's Lobatto samples
    atoms, bottom = box.word.atoms, box.bottom
    heights, dists = [], []
    with mpmath.workdps(_BOX_DIGITS):
        for s in _lobatto(bottom.s_lo, bottom.s_hi, _SAMPLES):
            xi, level = bottom.base_point(float(s))
            x, y = _word_mp(sys, atoms, (xi, level))
            heights.append(abs(_ordinate_over(sys, atoms, xi, box.top.start[1], x) - y))
            dists.append(abs(y - _ordinate_over(sys, atoms, xi, box.delta.start[1], x)))
        return float(mpmath.log10(max(heights))), float(mpmath.log10(max(dists)))


@pytest.fixture(scope="module")
def witness_boxes(bench_workloads, tmp_path_factory):
    """(label, system, box) for every box of the cascade witness of the
    reference, of both instances of sweep seed 0 and of H1 0.5 x^2 y."""
    root = tmp_path_factory.mktemp("witnesses")
    base = json.loads(CONFIG.read_text())
    raws = {"reference": base, "H1 x^2y": dict(base, system=dict(base["system"], h1_terms=[[2, 1, 0.5]]))}
    for i, raw in enumerate(bench_workloads.make_configs("instance-sweep", 0, CONFIG.parents[1])):
        raws[f"sweep 0.{i}"] = raw
    boxes = []
    for label, raw in raws.items():
        path = root / f"{len(boxes)}.json"
        path.write_text(json.dumps(raw))
        cfg = cli.load_config(path)
        witness = cli.cmd_cascade(cfg, root)[0]["witness"]
        sys = cli._system_for_eps(cfg.system, witness["eps"])
        boxes += [(label, sys, box) for box in tl.run_cascade(sys, witness["n"]).boxes]
    return boxes


def test_box_logs_match_the_1500_digit_oracle(witness_boxes):
    assert len(witness_boxes) == 8
    assert {box.k for _, _, box in witness_boxes} == {1, 2}
    for label, sys, box in witness_boxes:
        _, log_h, log_l = box_metrics(sys, box)
        want_h, want_l = _oracle_logs(sys, box)
        assert log_h / math.log(10.0) == pytest.approx(want_h, rel=1e-9), (label, box.k)
        assert log_l / math.log(10.0) == pytest.approx(want_l, rel=1e-9), (label, box.k)
        assert want_h < want_l < -330.0
