"""Resonances, exceptional points, and Berry phases of the scaled
sech-squared barrier.

The package is organized in layers: ``specfun`` (complex gamma and Gauss
hypergeometric kernels), ``model`` (closed-form spectral data), ``wavefun``
(scaled wave functions, Siegert roots, norms, region classification),
``binbasis`` (momentum-bin discretization and overlap machinery),
``eploop`` (branch-point continuation and loop verdicts), and ``cli``
(deterministic file emission).
"""

from .errors import (
    BranchCollision,
    ConfigError,
    CsmError,
    DegenerateIndex,
    EmptyRange,
    IllConditionedFit,
    NonConvergence,
    NonNormalizable,
    PoleError,
    PreconditionViolation,
    QuadratureError,
    SingularCoordinate,
    StepTooCoarse,
    UndefinedAngle,
)
from .model import (
    CriticalAngle,
    DerivedQuantities,
    ModelParams,
    RegionBounds,
    ResonancePole,
    branch_point,
    branch_point_coupling,
    contact_coupling_root,
    critical_angle,
    derived_quantities,
    lambda_window,
    resonance_energy,
)
from .specfun import complex_gamma, hyp2f1, hyp2f1_grid, reciprocal_gamma
from .wavefun import (
    AsymptoticCoefficients,
    RegionLabel,
    WaveField,
    asymptotic_coefficients,
    asymptotic_values,
    classification_functional,
    classify_region,
    default_grid,
    eval_wavefunction,
    find_resonance_k,
    gamow_cnorm,
    normalize_gamow,
    raw_psi,
    siegert_residual,
)
from .binbasis import (
    BasisState,
    BinGrid,
    DegeneracyPoint,
    OverlapMatrix,
    TailTerm,
    bin_energy,
    binned_state,
    build_bins,
    degeneracy_diagnostics,
    ep_ray,
    limit_exchange_entries,
    overlap_matrix,
    plane_wave_bin,
    product_entry,
    real_axis,
    resonance_state,
    spatial_grid,
    tail_integral,
    unit_diagonal_state,
)
from .eploop import (
    LoopSpec,
    LoopTrace,
    PuiseuxFit,
    boundary_crossings,
    case_asymptotic_phase,
    fit_puiseux,
    run_berry_loop,
    trace_resonance,
)

__version__ = "0.1.0"
