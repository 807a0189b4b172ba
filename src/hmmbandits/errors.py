"""Exception types shared across the package."""


class HmmBanditsError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(HmmBanditsError):
    """Array dimensions are inconsistent with the declared sizes."""


class DegenerateLikelihood(HmmBanditsError):
    """An observation has zero likelihood under every hidden state."""


class NotMixing(HmmBanditsError):
    """The transition matrix has a zero entry, so no forgetting rate exists."""


class TooLarge(HmmBanditsError):
    """Requested exhaustive enumeration exceeds the supported size bounds."""


class TooShort(HmmBanditsError):
    """The context stream is too short to form any moment triple."""


class EstimationFailed(HmmBanditsError):
    """The spectral estimator found no estimate in these moments, as is
    routine on short context prefixes."""


class NearSingularPivot(EstimationFailed):
    """A pivot matrix inside the spectral estimator is numerically singular."""


class DiagonalizationFailed(EstimationFailed):
    """No drawn rotation produced a real, well-conditioned eigensystem."""


class RankDeficient(EstimationFailed):
    """The pairwise moment matrix does not have the requested rank."""


class NonFinite(HmmBanditsError):
    """Input contains NaN or infinite entries."""


class SingularA(HmmBanditsError):
    """Matrix argument of the determinant identity is singular."""


class InsufficientData(HmmBanditsError):
    """Not enough horizons or seeds to fit a regret rate."""


class ConfigError(HmmBanditsError):
    """Experiment configuration failed to parse or validate."""
