"""Exception types shared across the package, each with the CLI exit code
it ends a run with: 2 (the default) for a parameter the models cannot take,
3 for a truncation that did not converge, 4 for a consistency failure."""

__all__ = ["SusyJCError", "DimensionMismatch", "InvalidN", "DegenerateAngle",
           "InvalidLabel", "TruncationTooSmall", "DegenerateCouplings",
           "NoConvergence", "SupportExceeded"]


class SusyJCError(Exception):
    """Base class for all library-specific errors."""
    exit_code = 2


class DimensionMismatch(SusyJCError):
    """Operands act on spaces of different dimension."""
    exit_code = 4


class InvalidN(SusyJCError):
    """Excitation number outside the allowed range."""


class DegenerateAngle(SusyJCError):
    """Dressed state undefined because detuning and coupling both vanish."""


class InvalidLabel(SusyJCError):
    """No dressed level with the requested (branch, N) label."""


class TruncationTooSmall(SusyJCError):
    """Requested state does not fit inside the configured Fock cutoff."""


class DegenerateCouplings(SusyJCError):
    """Couplings on the isotropic line lam == mu, where the squeezed frame
    and the factorizable map are singular (the lab-frame model is not)."""


class NoConvergence(SusyJCError):
    """Too few eigenvalues certified stable under truncation doubling."""
    exit_code = 3


class SupportExceeded(SusyJCError):
    """Displaced state leaks past the Fock cutoff beyond tolerance."""
    exit_code = 4
