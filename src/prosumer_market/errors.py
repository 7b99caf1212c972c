"""Exception types shared across the package."""


class ProsumerMarketError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ProsumerMarketError):
    """An argument is outside the domain on which an operation is defined."""


class InvalidBids(ProsumerMarketError):
    """A bid vector sums to a positive value, which no clearing price admits."""


class ConfigError(ProsumerMarketError):
    """A configuration file or object failed validation."""


class BracketFailure(ProsumerMarketError):
    """No sign change in excess demand was found over the dual search range."""


class UnboundedPayoff(ProsumerMarketError):
    """Best-response search requested where the payoff grows without bound."""


class TooLarge(ProsumerMarketError):
    """Brute-force enumeration requested for a market too large to enumerate."""


class SaturationWarning(UserWarning):
    """An exponent was clamped to the overflow guard; utility values saturated."""
