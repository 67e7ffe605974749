"""Pseudospectral lab for a coupled pair of gKdV-type equations.

Simulates u_t + u_xxx + (u^p v^{p+1})_x = 0, v_t + v_xxx + (u^{p+1} v^p)_x = 0
on a periodic domain, tracks the radius of spatial analyticity over time, and
numerically stress-tests the Gevrey / Bourgain-norm inequalities behind the
radius-decay analysis.
"""

__version__ = "0.1.0"

from .diagnostics import (
    DecayFit,
    InvariantSet,
    RadiusEstimate,
    TrajectoryRecord,
    estimate_radius,
    evaluate_analytic_extension,
    fit_decay_exponent,
    invariants,
    joint_radius,
    radius_nonincreasing,
    track_radius,
)
from .estimates import (
    STRICHARTZ_VARIANTS,
    EstimateReport,
    SampleSpec,
    check_apriori,
    check_apriori_ensemble,
    check_duhamel,
    check_embedding,
    check_exponential_lemmas,
    check_linear_free,
    check_multilinear,
    check_strichartz,
    check_time_cutoff,
)
from .evolution import (
    CoupledState,
    NonContractionError,
    NumericalBlowupError,
    PicardConfig,
    PicardResult,
    SolverConfig,
    picard_solve,
    simulate,
)
from .harness import (
    ConfigError,
    InsufficientDataError,
    RunConfig,
    RunManifest,
    parse_config,
    render_config,
    run,
    sweep,
)
from .spaces import (
    CutoffProfile,
    NormParams,
    SpaceTimeSample,
    bourgain_norm,
    gevrey_norm,
    mixed_norm,
)
from .spectral import (
    SpectralGrid,
    dealiased_product,
    forward_transform,
    inverse_transform,
)

__all__ = [
    "__version__",
    "ConfigError",
    "CoupledState",
    "CutoffProfile",
    "DecayFit",
    "EstimateReport",
    "InsufficientDataError",
    "InvariantSet",
    "NonContractionError",
    "NormParams",
    "NumericalBlowupError",
    "PicardConfig",
    "PicardResult",
    "RadiusEstimate",
    "RunConfig",
    "RunManifest",
    "STRICHARTZ_VARIANTS",
    "SampleSpec",
    "SolverConfig",
    "SpaceTimeSample",
    "SpectralGrid",
    "TrajectoryRecord",
    "bourgain_norm",
    "check_apriori",
    "check_apriori_ensemble",
    "check_duhamel",
    "check_embedding",
    "check_exponential_lemmas",
    "check_linear_free",
    "check_multilinear",
    "check_strichartz",
    "check_time_cutoff",
    "dealiased_product",
    "estimate_radius",
    "evaluate_analytic_extension",
    "fit_decay_exponent",
    "forward_transform",
    "gevrey_norm",
    "inverse_transform",
    "invariants",
    "joint_radius",
    "mixed_norm",
    "parse_config",
    "picard_solve",
    "radius_nonincreasing",
    "render_config",
    "run",
    "simulate",
    "sweep",
    "track_radius",
]
