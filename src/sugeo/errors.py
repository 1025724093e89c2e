"""Domain error types shared across the package.

Every error raised by library code for a *domain* reason (as opposed to a
plain programming error) derives from SugeoError, so the CLI can map them
to exit code 1 and print the error class name verbatim.
"""


class SugeoError(Exception):
    """Base class for all domain errors."""


class DimensionMismatch(SugeoError):
    """Vector/matrix dimensions are inconsistent with each other or the mode."""


class DimensionLimit(SugeoError):
    """Qubit count exceeds the configured cap for this operation."""


class NonTracelessInSUMode(SugeoError):
    """A Hamiltonian with non-negligible trace was passed where SU mode requires traceless."""


class NotCommuting(SugeoError):
    """Stabilizer generators must pairwise commute."""


class NotIndependent(SugeoError):
    """A stabilizer generator is a product of the others (up to sign)."""


class DeltaTooLarge(SugeoError):
    """The smoothing parameter violates delta < 1/P, so the implicit norm does not exist."""


class NotSmoothMetric(SugeoError):
    """A gradient or Hessian requested for a metric with no smooth square."""


class ZeroVector(SugeoError):
    """An operation that needs y != 0 received the zero vector."""


class BranchCut(SugeoError):
    """A unitary has an eigenvalue too close to -1; the standard log is undefined."""


class ResonantSpectrum(SugeoError):
    """An eigenvalue gap of X sits on a nonzero multiple of 2*pi; the coordinate change is not invertible."""


class OutsidePatch(SugeoError):
    """A coordinate point lies outside the chart (e.g. ||x|| >= pi on SU(2))."""


class SingularHessian(SugeoError):
    """The norm Hessian is numerically singular, or a step is too long for its curvature."""


class StepLimitExceeded(SugeoError):
    """Geodesic integration re-anchored or stepped more than the configured limit."""


class TooFewSamples(SugeoError):
    """A sampled curve has too few samples in every chart segment for the requested check."""


class UnsupportedCoefficient(SugeoError):
    """Coefficient vector has mass outside the allowed support."""


class InconsistentPenalties(SugeoError):
    """Penalty functions of a direct-sum triple disagree on a shared weight."""


class WindowTooSmall(SugeoError):
    """The lattice search ran out of its node budget before proving optimality."""


class NoConvergence(SugeoError):
    """An iterative solve missed its tolerance within its iteration cap."""


class NonFiniteInput(SugeoError):
    """A numeric input, or a result bound for JSON output, is NaN or infinite."""


class InvalidConfig(SugeoError):
    """An environment setting such as SUGEO_N_CAP cannot be parsed."""


class UnsupportedSpec(SugeoError):
    """The requested closed form is not defined for this metric family."""


class NotGBounding(SugeoError):
    """A gate Hamiltonian has norm > 1 under the metric, so the gate-count bound does not apply."""
