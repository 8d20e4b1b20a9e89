"""Exception hierarchy shared by all frachp modules."""


class FracHPError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(FracHPError, ValueError):
    """A library argument outside its domain; the message names it."""


# -- grids and kernels -------------------------------------------------------

class NonPositiveStep(FracHPError):
    pass


class ZeroSteps(FracHPError):
    pass


class GridReachesSingularity(FracHPError):
    """The time grid runs into the (t - s) kernel singularity."""


class KernelSingularity(FracHPError):
    """A power kernel was evaluated at or past t - s = 0."""


class NonPositiveArgument(FracHPError):
    """Gamma function called outside its supported positive domain."""


# -- fractional integrals ----------------------------------------------------

class InvalidOrder(FracHPError):
    """Fractional order outside (0, 1]."""


class GridMismatch(FracHPError):
    pass


class BadChannel(FracHPError):
    pass


class NegativeRate(FracHPError):
    pass


class IndivisibleFactor(FracHPError):
    pass


# -- dynamics ----------------------------------------------------------------

class SampleError(FracHPError):
    """A failure at one sample of a batch.

    sample is the flat batch index of the first failing sample, if known.
    """

    def __init__(self, message: str, sample: int | None = None):
        self.sample = sample
        super().__init__(message)


class SingularHessian(SampleError):
    """A velocity Hessian or Newton Jacobian is singular."""


class NoConvergence(SampleError):
    """A Newton iteration did not reach its tolerance."""


class NotPositiveDefinite(SampleError):
    """A metric sample is not symmetric positive definite."""


class NoiseShapeUnsupported(FracHPError):
    """Noise coupling does not have the q-only, momentum-equation-only shape."""


class BatchShapeError(FracHPError):
    """A batched Lagrangian or coupling returned neither (...) nor ()."""


# -- integrator --------------------------------------------------------------

class NumericalBlowup(FracHPError):
    """A state or a running sum is not finite, or is huge, from `step` on.

    The integrator also sets s (the time of that step), path (the index
    of the first failing path in its batch), component ("q", "p" or "v")
    and last_state, the (q, p, v) of that path at the step before, the
    last that passed the check; they are None where they do not apply.
    """

    def __init__(self, step: int, message: str = "", s: float | None = None,
                 path: int | None = None, component: str | None = None,
                 last_state: tuple | None = None):
        self.step, self.s, self.path, self.component = step, s, path, component
        self.last_state = last_state
        super().__init__(message or f"non-finite or huge state at step {step}")


class BoundaryViolation(FracHPError):
    """Perturbation dq does not vanish at both endpoints."""


class NotApplicable(FracHPError):
    """Requested diagnostic is degenerate for the given inputs."""


# -- configuration -----------------------------------------------------------

class ConfigError(FracHPError):
    pass


class UnknownKey(ConfigError):
    pass


class MissingKey(ConfigError):
    pass


class ParseError(ConfigError):
    pass
