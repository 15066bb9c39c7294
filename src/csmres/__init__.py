"""Resonances, exceptional points, and Berry phases of the scaled
sech-squared barrier.

The package is organized in layers: ``specfun`` (complex gamma and Gauss
hypergeometric kernels), ``model`` (closed-form spectral data), ``wavefun``
(scaled wave functions, Siegert roots, region classification),
``binbasis`` (momentum-bin discretization and overlap machinery),
``eploop`` (branch-point continuation and loop verdicts), and ``cli``
(deterministic file emission).

The re-exports below resolve on first use (PEP 562), so ``import csmres``
loads only the package itself and each layer is imported when one of its
names is first asked for.
"""

import importlib

# home module of each re-exported name
_EXPORTS = {
    "errors": (
        "BranchCollision", "ConfigError", "CsmError", "DegenerateIndex",
        "EmptyRange", "NonConvergence", "NonNormalizable", "PoleError",
        "PreconditionViolation", "QuadratureError", "StepTooCoarse",
    ),
    "model": (
        "ModelParams", "RegionBounds", "ResonancePole", "bin_energy",
        "branch_point", "branch_point_coupling", "contact_coupling_root",
        "lambda_window", "potential_index", "resonance_energy",
    ),
    "specfun": ("complex_gamma", "hyp2f1", "hyp2f1_grid", "reciprocal_gamma"),
    "wavefun": (
        "WaveField", "classification_functional", "classify_region",
        "default_grid", "eval_wavefunction", "find_resonance_k", "raw_psi",
        "siegert_residual",
    ),
    "binbasis": (
        "BasisState", "BinGrid", "DegeneracyPoint", "Side", "SpatialGrid",
        "TailTerm", "binned_state", "degeneracy_diagnostics",
        "ep_ray", "limit_exchange_entries", "overlap_matrix", "product_entry",
        "real_axis", "resonance_state", "spatial_grid", "unit_diagonal_state",
    ),
    "eploop": (
        "LoopSpec", "LoopTrace", "boundary_crossings",
        "case_asymptotic_phase", "run_berry_loop",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        # a layer module itself, imported on first use
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
