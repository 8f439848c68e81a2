"""Exception types raised by the calibration toolkit."""


class PovmcalError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PovmcalError, ValueError):
    """A run configuration is malformed or does not fit the requested command."""


class DimensionMismatchError(PovmcalError, ValueError):
    """Operator or state dimensions are inconsistent."""


class UnnormalizableStateError(PovmcalError, ValueError):
    """Requested state parameters do not yield a normalizable state."""


class PovmInvariantError(PovmcalError, ValueError):
    """A POVM violates positivity or completeness beyond tolerance."""


class ParameterRangeError(PovmcalError, ValueError):
    """A model parameter lies outside the range the model admits."""


class TailMassError(PovmcalError, ValueError):
    """A truncation cutoff leaves too much probability mass outside."""


class NotAQuorumError(PovmcalError, ValueError):
    """Observable family does not span the operator space."""


class NonInvertibleNoiseError(PovmcalError, ValueError):
    """Noise map cannot be inverted within the configured condition bound."""


class KernelConstructionError(PovmcalError, ValueError):
    """Estimation kernels failed the unbiasedness residual check."""


class NumericalValidityError(PovmcalError, RuntimeError):
    """A computed probability fell outside its tolerated range."""


class UnsupportedStructureError(PovmcalError, ValueError):
    """Input lacks the structure required by a specialized routine."""


class CutoffError(PovmcalError, ValueError):
    """A reconstruction cutoff is too small for the configured state."""


class BootstrapError(PovmcalError, RuntimeError):
    """Too many bootstrap repetitions failed."""


class ScenarioAbort(PovmcalError, RuntimeError):
    """A scenario run was aborted by a pre-flight check."""
