"""Exception types shared across the package."""


class KerrcatError(Exception):
    """Base class for package-specific failures."""


class InvalidDimensionError(KerrcatError, ValueError):
    """Fock truncation too small for the requested operator."""


class TruncationRiskError(KerrcatError, ValueError):
    """Requested displacement (or state support) does not fit the truncated space."""


class PoleError(KerrcatError, ZeroDivisionError):
    """Perturbative energy denominator is resonant."""


class IntegrationError(KerrcatError, RuntimeError):
    """Time integration failed to converge under step control."""
