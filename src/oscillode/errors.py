"""Exception types shared across the package."""


class OscillodeError(Exception):
    """Base class for all package-specific errors."""


class SmallDenominatorError(OscillodeError):
    """A base or newly generated frequency is zero or below the safety threshold.

    Coefficient recursions divide by these frequencies, so continuing would
    produce arbitrarily amplified coefficients.  There is no remedy other
    than lowering the truncation order or changing the frequency set.
    """

    def __init__(self, message, label=None, sigma=None):
        super().__init__(message)
        self.label = label
        self.sigma = sigma


class ValidationFailed(OscillodeError):
    """A user-supplied differential disagreed with the finite-difference oracle."""

    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = failures or []


class UnsupportedOrder(OscillodeError):
    """A differential or amplitude derivative beyond the declared order was requested."""


class OutOfDomain(OscillodeError):
    """Evaluation time lies outside the solved interval."""


class StepUnderflow(OscillodeError):
    """The adaptive integrator could not make progress at the requested tolerance."""


class NonFiniteRHS(OscillodeError):
    """A step's stages produced a NaN or infinite value.

    Shrinking the step cannot cure a right-hand side that is not finite, so
    the integrator stops at the first such step; ``t`` is where it started.
    It is not a StepUnderflow: a blow-up is not a step too small to take.
    """

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class MaxStepsExceeded(OscillodeError):
    """The adaptive integrator exhausted its step budget, ``ode_core.MAX_STEPS``."""


class SingularResolvent(OscillodeError):
    """The shifted matrix of a particular-solution solve is numerically singular."""
