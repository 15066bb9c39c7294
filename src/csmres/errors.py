"""Exception hierarchy shared by all numerical modules."""

from __future__ import annotations


class CsmError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(CsmError):
    """Gamma function evaluated at a non-positive integer.

    Attributes
    ----------
    pole : int
        The non-positive integer at which the pole sits.
    """

    def __init__(self, pole: int, z=None):
        self.pole = pole
        self.z = z
        msg = f"gamma pole at non-positive integer {pole}"
        if z is not None:
            msg += f" (argument {z})"
        super().__init__(msg)


class NonConvergence(CsmError):
    """Iterative evaluation hit its iteration cap.

    Carries diagnostics about the offending evaluation.
    """

    def __init__(self, what: str, diagnostics: dict | None = None):
        self.diagnostics = diagnostics or {}
        super().__init__(f"{what} did not converge: {self.diagnostics}")


class DegenerateIndex(CsmError):
    """Potential-strength parameter sits at the degenerate point of the index."""


class SingularCoordinate(CsmError):
    """Spatial point too close to a coordinate singularity of the mapping."""


class NonNormalizable(CsmError):
    """State has a non-decaying tail; bilinear norm undefined."""


class EmptyRange(CsmError):
    """Requested discretization contains no bins."""


class QuadratureError(CsmError):
    """Adaptive quadrature failed to reach its tolerance."""


class BranchCollision(CsmError):
    """Path continuation step too coarse to disambiguate branches."""


class StepTooCoarse(CsmError):
    """Phase tracking observed a jump too large for reliable unwrapping."""


class PreconditionViolation(CsmError):
    """Operation precondition violated (reported, not silently ignored)."""


class ConfigError(CsmError):
    """Invalid run configuration."""
