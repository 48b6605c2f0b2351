"""Exception hierarchy shared by all hyporom modules."""


class HyporomError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteState(HyporomError):
    """A state array contains NaN or Inf entries."""


class ZeroWaveSpeed(HyporomError):
    """All wave speeds vanish; no CFL time step exists."""


class NonPositiveDepth(HyporomError):
    """A water depth is <= 0 (dry states are not supported)."""


class DegenerateWaveFan(HyporomError):
    """HLL wave speeds coincide; the two-wave fan is degenerate."""


class UnsupportedSystem(HyporomError):
    """The requested system/flux combination is not defined."""


class NonMonotoneTime(HyporomError):
    """A snapshot was recorded at a time <= the previous one."""


class TooFewSnapshots(HyporomError):
    """Not enough snapshot columns for the requested partition."""


class ShapeMismatch(HyporomError):
    """Array dimensions are inconsistent with the operation."""


class IoError(HyporomError):
    """A snapshot CSV file could not be written."""


class EmptySlice(HyporomError):
    """An operation received an empty snapshot slice."""


class BreakdownInEigensolve(HyporomError):
    """The SVD/eigendecomposition backend failed to converge."""


class AllZeroSpectrum(HyporomError):
    """Every singular value is zero; no modes can be selected."""


class SingularInterpolationMatrix(HyporomError):
    """The DEIM interpolation matrix U_I is singular."""


class EvaluationError(HyporomError):
    """A pointwise nonlinear evaluation failed (e.g. h <= 0 at a DEIM point)."""


class MissingAuxBasis(HyporomError):
    """A linearization requires an auxiliary basis that was not provided."""


class ConfigError(HyporomError):
    """An experiment configuration is invalid."""


class ExperimentError(HyporomError):
    """A pipeline stage failed; carries the stage label."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
