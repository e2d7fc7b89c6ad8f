"""Step-two Carnot group calculus and horizontal mean curvature flow.

The package has five layers:

    groups     group law, dilations, gauge, frame, translation Jacobians
    calculus   exact jets, horizontal gradient/Hessian, the operator F and
               its semicontinuous envelopes
    barriers   closed-form sub/supersolutions with classifications and
               extinction-time formulas
    verdicts   pointwise viscosity residuals, sweeps, the norm-lemma and
               restricted-test-class checks
    solver     explicit level-set evolution on a box with singular-node
               schemes, front extraction and extinction detection

plus a batch CLI (python -m carnotflow / carnotflow) driving verification
suites and evolution experiments from a JSON config.
"""

from .groups import (
    GroupSpec,
    validate_spec,
    heisenberg,
    m3n5,
    is_heisenberg_like,
    require_heisenberg_like,
    bracket,
    compose,
    inverse,
    dilate,
    sigma,
    gauge,
    homogeneous_norm,
    gauge_distance,
    left_translation_jacobian,
    right_translation_jacobian,
)
from .calculus import (
    Jet,
    Expr,
    Const,
    Coord,
    TimeVar,
    Sum,
    Product,
    Power,
    sqrt,
    sq_norm,
    ScalarField,
    horizontal_gradient,
    horizontal_hessian,
    OperatorBounds,
    operator_bounds,
)
from .barriers import (
    BARRIER_KINDS,
    SQRT_GAUGE_EXCLUSION,
    BarrierSpec,
    BarrierEval,
    make_cylinder,
    make_gauge,
    make_euclid_ball,
    make_sqrt_gauge,
    make_barrier,
    extinction_time,
    SmoothMap1D,
    psi_identity,
    psi_square,
    psi_sqrt,
    psi_s_plus_s3,
    change_of_variables_check,
    v_convexity_witness,
    gauge_profile_value,
    gauge_profile_hgrad,
    gauge_profile_hhess,
)
from .verdicts import (
    PointVerdict,
    check_point,
    classification_holds,
    SweepReport,
    sweep,
    NormLemmaReport,
    check_norm_lemma,
    restricted_test_class_filter,
    REGIME_REGULAR,
    REGIME_CHAR_NULL,
    REGIME_CHAR_ENVELOPE,
)
from .solver import (
    GridField,
    InitialSpec,
    SolverConfig,
    init,
    Engine,
    RunResult,
    run,
    FrontCloud,
    extract_front,
    residual_on_exact,
    write_snapshot_csv,
    write_front_csv,
)

__version__ = "0.1.0"
