"""Typed errors raised by the library.

Every failure mode that callers are expected to catch gets its own class;
plain ValueError is reserved for malformed arguments (wrong types, bad
labels) detected at construction time.
"""


class Pachner33Error(Exception):
    """Base class for all library-specific errors."""


class SpaceMismatchError(Pachner33Error):
    """Two objects built over different generator spaces were combined."""


class DegenerateWeightError(Pachner33Error):
    """A weight matrix is too close to the non-generic stratum."""


class DegenerateCocycleError(Pachner33Error):
    """A cocycle hits a degeneracy (zero component, vanishing kappa denominator)."""


class BranchInconsistencyError(Pachner33Error):
    """Square-root branch bookkeeping produced an inconsistent sign pattern."""


class ConsistencyError(Pachner33Error):
    """A cross-check the theory guarantees (loop closure, agreement) failed."""


class NumericsError(Pachner33Error):
    """A numerical routine failed to converge or left the float range."""
