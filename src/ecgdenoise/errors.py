"""Exception types raised by the library."""


class EcgDenoiseError(Exception):
    """Base class for all library-specific errors."""


class IntegrationDivergedError(EcgDenoiseError):
    """Non-finite state encountered while integrating the ODE."""

    def __init__(self, step, trace_index=0):
        self.step = int(step)
        self.trace_index = int(trace_index)
        super().__init__(
            f"integration produced a non-finite state at step {self.step}"
            f" (trace {self.trace_index})"
        )


class InvalidJitterError(EcgDenoiseError):
    """Jitter resampling exhausted its retry budget."""


class WindowTooLongError(EcgDenoiseError, ValueError):
    """Requested beat window exceeds one full cycle."""


class OffGridRateError(EcgDenoiseError, ValueError):
    """One cycle at the sampling rate is not a whole number of RK4 steps,
    or more of them than ``simulate.MAX_CYCLE_STEPS``."""


class NoBeatsError(EcgDenoiseError):
    """No usable beats were found in a trace."""


class InsufficientReplicatesError(EcgDenoiseError, ValueError):
    """Noise estimation needs at least two beats per sample."""


class ZeroNoiseError(EcgDenoiseError):
    """All beat replicates are identical; the noise scale is unidentifiable."""


class FitDivergedError(EcgDenoiseError):
    """An EM fit produced a non-finite log-likelihood or collapsed."""


class FloatRangeError(EcgDenoiseError, ValueError):
    """A noise level, whitened distance or estimate error is not a finite
    float64: the input's scale is out of float64's range for it."""


class NonMonotoneFitError(EcgDenoiseError, ValueError):
    """An EM fit's recorded log-likelihood fell between kept points; the
    message names the fit."""


class EmptyInputError(EcgDenoiseError, ValueError):
    """An operation received an empty report or sample set."""


class InvalidSampleIdError(EcgDenoiseError, ValueError):
    """A sample id cannot name a CSV row: empty, repeated, or holding a
    separator or leading or trailing whitespace."""


class WorkerDiedError(EcgDenoiseError):
    """A benchmark cell worker process ended before its cells finished;
    the message names them."""
