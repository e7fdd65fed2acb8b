"""The package's one exception class.

Every unusable input or state raises RelayError with a message that
names the cause: bad parameters, a bad start state or config, a run
too long to bound, a stationary solve whose factor is singular or whose
solution fails the residual check, too few batches, cycles or samples
for a statistic.  It derives from ValueError, so callers that only care
that the input was unusable can catch either; the command line turns it
into exit code 2.  (The test oracles in tests/oracles.py add one class
of their own, EventSkipped, for an event operation applied out of
order.)
"""


class RelayError(ValueError):
    """A parameter, state or statistic the package cannot work with."""
