"""Exception taxonomy shared across the package.

Domain errors (bad parameters, bad states) derive from ValueError so that
call sites which only care about "the input was unusable" can catch one
base class.  A stationary solve that fails on its input is one of them;
other numerical failures derive from RuntimeError.
"""


class RelayError(ValueError):
    """Base class for parameter and state domain errors."""


class NOutOfRange(RelayError):
    """Ring size out of its admissible range (>= 3 sites, or > 0 length)."""


class EvenN(RelayError):
    """Even site count: the two-walker difference chain splits into
    non-communicating classes, so none of the exact machinery applies."""


class EpsilonOutOfRange(RelayError):
    """Per-step direction flip probability outside the open interval (0, 1)."""


class SpeedOutOfRange(RelayError):
    """Walker speed must be strictly positive."""


class RateOutOfRange(RelayError):
    """Direction switching rate must be strictly positive."""


class MTooSmall(RelayError):
    """Fewer than two walkers: nobody to hand the message to."""


class MNotTwo(RelayError):
    """Operation only defined for exactly two walkers."""


class AlphaNonpositive(RelayError):
    """Dimensionless load alpha = rate * length / speed must be > 0."""


class StateInF(RelayError):
    """State lies on the contact set (carrier co-located with an
    oppositely moving walker) where the requested quantity is undefined."""


class ConfigError(RelayError):
    """Experiment configuration is missing keys, malformed, or out of range."""


class EventSkipped(RuntimeError):
    """A deterministic advance tried to jump past a scheduled event."""


class SolverSingular(RelayError):
    """Linear solve for the stationary law failed: its factor is singular
    or its solution fails the residual check (a flip probability too
    close to 0 for double precision)."""


class NoCycles(RelayError):
    """Report carries no completed regeneration cycles."""


class TooFewCycles(RelayError):
    """Not enough regeneration cycles for the requested statistic."""


class TooFewBatches(RelayError):
    """Not enough batches to form a batch-means confidence interval."""


class TooFewSamples(RelayError):
    """Chi-square cells would be too sparse for the asymptotic test."""
