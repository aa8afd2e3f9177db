"""Numerical laboratory for a planar saddle with a cubic homoclinic tangency.

The model is a linear saddle f(x, y) = (mu*x, lam*y) on a chart, closed up by
a transition map phi whose first coordinate has the jet a*y + b*x*y + c*x^3:
the unstable manifold returns to the saddle with a cubic (two-sided)
tangency.  The package builds the invariant leaves, the shrinking fold
rectangles S_n, the return dynamics and box cascade, the sign-case table, and
the conjugacy-invariant modulus diagnostics, plus a config-driven CLI.
"""

from .errors import (
    CascadeEnd,
    ChartExitError,
    ConfigError,
    DomainError,
    InconclusiveError,
    NotFoundError,
    NoVerticalTangencyError,
    NumericError,
    SlopeLemmaCounterexample,
    SmallExpandingViolationError,
    TangencyLabError,
    WindowExceededError,
    WrongQuadrantError,
)
from .model import (
    Condition,
    ConditionReport,
    ModelSystem,
    Rect,
    SaddleSpec,
    TransitionSpec,
    apply_linear,
    apply_phi,
    chart_exit_index,
    jacobian_phi,
    return_rectangle,
    return_rectangle_minus,
    signed_power,
    tau_bounds,
    validate,
)
from .leaves import (
    ArcPoint,
    SeedArc,
    alpha,
    arc_height,
    stable_leaf_v,
    t_window,
    tangency_order,
    tangency_samples,
    unstable_leaf_w,
)
from .rects import (
    SnRectangle,
    build_sn,
    extended_params,
    first_valid_n,
    fold_point,
    fold_rectangles,
    scaling_fit,
    vertical_params,
)
from .returns import (
    VERTICAL,
    BetaArc,
    JnSlopeReport,
    SlopedPoint,
    SlopeSearchResult,
    beta_arc,
    find_s_n0,
    i_n,
    jn_slope_check,
    slope_through_return,
    u0,
    window_exponent,
)
from .cascade import (
    Box,
    CascadeResult,
    CurveHandle,
    MapWord,
    box_metrics,
    build_b1,
    cascade_step,
    count_crossing_arcs,
    max_edge_slope,
    run_cascade,
)
from .cases import (
    Adaptability,
    SignCase,
    adaptability,
    adaptable_count,
    adaptable_labels,
    choose_region,
    classify,
    classify_system,
)
from .moduli import (
    ConjugacyPair,
    OrderProbeReport,
    ReturnRecord,
    conjugate_system,
    conjugation_residual,
    eigenvalue_estimates,
    correspondence_points,
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
from .reference import (
    gate_breaker_system,
    make_system,
    reference_system,
    slow_system,
    tilted_system,
    wide_expansion_system,
)

__version__ = "0.1.0"
