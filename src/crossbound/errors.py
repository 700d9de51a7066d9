"""Exception types shared across the package."""


class CrossboundError(Exception):
    """Base class for all crossbound errors."""


class InvalidParameter(CrossboundError):
    """A constructor or operation received an out-of-range parameter."""


class DomainViolation(CrossboundError):
    """An evaluation point lies outside the permitted (open) domain."""


class UnsupportedSide(CrossboundError):
    """The requested tail side is not defined for this log-MGF bound."""


class MonotonicityViolation(CrossboundError):
    """phi(s)/|s| failed the monotonicity probe required for slope roots."""


class NotUnimodal(CrossboundError):
    """phi(+-s) - gamma s is not convex where the minimizer looked: h' keeps
    one sign over the probe bracket, or h on the bracket has a second valley."""


class InvalidSpec(CrossboundError):
    """A process specification is malformed."""


class ConfigError(CrossboundError):
    """CLI configuration is malformed (unknown or missing keys)."""
