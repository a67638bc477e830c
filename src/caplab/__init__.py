"""Desk-scale toolkit for norm-based capacity of shallow and deep predictor
classes: margin-shattering constructions with exhaustive verification,
Rademacher-complexity estimation, covering-number and entropy-integral
bounds, projected SGD with its regret certificate, and closed-form
sample-complexity evaluators."""

from .bounds import (
    BoundReport,
    deep_elementwise_bound,
    deep_general_bound,
    exp_class_sample_bound,
    sgd_sample_bound,
    shatter_lower_bound,
    smooth_one_layer_bound,
)
from .complexity import (
    CoverFormula,
    FiniteWitnessClass,
    LinearBallClass,
    MatrixBallClass,
    RademacherEstimate,
    cover_bound,
    dudley_bound,
    empirical_cover,
    rademacher_mc,
)
from .constructions import (
    SeparatedFamily,
    ShatterInstance,
    convex_instance,
    nonzero_init_instance,
    random_separated_family,
    verify_shattering,
    zero_init_instance,
)
from .errors import (
    BudgetTooSmallError,
    CapacityExceededError,
    InvalidInputError,
    NumericalFailureError,
)
from .learner import (
    SgdConfig,
    SgdResult,
    excess_risk_experiment,
    project_frobenius_ball,
    sgd_run,
    uc_gap_experiment,
)
from .lipschitz import (
    AnchoredLipschitz,
    budget,
    mcshane_extend,
    min_feasible_slope,
)
from .numerics import (
    BallNet,
    ball_net,
    jacobi_svd,
    norm,
    spectral_norm,
    svd_truncate,
)

__version__ = "0.1.0"
