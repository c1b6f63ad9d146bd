"""Exception hierarchy.

Everything raised on purpose by this library derives from
:class:`StableDerivError`, so callers can catch one type at the CLI
boundary and still distinguish the failure modes below.
"""


class StableDerivError(Exception):
    """Base class for all stablederiv errors."""


class ParameterError(StableDerivError, ValueError):
    """A numeric parameter is outside its documented range."""


class DomainError(StableDerivError, ValueError):
    """An evaluation point (or a difference stencil) leaves the oracle domain."""


class CapabilityError(StableDerivError, TypeError):
    """An oracle lacks a required capability (e.g. no exact derivative)."""


class UnstableFamilyError(StableDerivError):
    """Requested estimation under a priori information too weak to stabilize it.

    Knowing only sup|f| or sup|f'| is not enough: two functions can agree
    with the observed data to within delta while their derivatives differ
    by a fixed amount at a point, so no estimator's worst-case error can
    shrink as delta does. The library refuses instead of returning garbage.
    """


class DegenerateInputError(StableDerivError, ValueError):
    """delta = 0 has no optimal step; use a fixed step (StepRule.fixed) instead."""


class GridTooShortError(StableDerivError, ValueError):
    """The sampled signal has too few points for the snapped stencil width."""


class InsufficientDataError(StableDerivError, ValueError):
    """Not enough usable rows for a fit."""


class ConfigurationError(StableDerivError, ValueError):
    """A study or CLI configuration is invalid (bad flag value, failed
    smoothness-declaration validation, malformed file)."""


class EstimatorFailure(StableDerivError, RuntimeError):
    """A user-supplied estimator raised during a challenge."""
