"""crossbound: maximal-inequality bounds for stochastic processes and their
Monte Carlo validation."""

from .bounds import (
    BoundReport,
    ExpFamily,
    azuma_bound,
    bernoulli_family,
    cbb_bounds,
    doob_exp_bound,
    eta_bound,
    expfam_bound,
    line_bound,
    optimized_line_bound,
    poisson_bounds,
    supermartingale_sup_bound,
    vee_bound,
)
from .errors import (
    ConfigError,
    CrossboundError,
    DomainViolation,
    InvalidParameter,
    InvalidSpec,
    MonotonicityViolation,
    NotUnimodal,
    UnsupportedSide,
)
from .mgf import (
    Bennett,
    Bernstein,
    CbbExp,
    Custom,
    DiagnosticReport,
    Gaussian,
    HoeffdingBernoulli,
    MgfBound,
    PhiKind,
    PoissonCentered,
    Uniform24,
    check_phi_validity,
    make_phi,
    phi_kind_from_dict,
    phi_kind_to_dict,
)
from .optimize import (
    OptResult,
    SlopeRoot,
    minimize_tail_exponent,
    solve_slope_root,
)
from .sim import (
    BernoulliIncrements,
    Brownian,
    CustomIncrements,
    ExpSupermartingale,
    IidSum,
    LazyWalk,
    Path,
    PoissonCounting,
    ProcessSpec,
    TwoPointIncrements,
    UniformIncrements,
    generate,
    path_rng,
)
from .stopping import (
    ContinuityRegion,
    OsReport,
    RegionPair,
    StopResult,
    first_exit,
    verify_optional_stopping,
)
from .validate import (
    EventSpec,
    ValidationReport,
    clopper_pearson,
    halving_allowance,
    sweep,
)

__version__ = "0.1.0"
