"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers can
catch a single exception type at an API boundary while still being able to
distinguish configuration problems from runtime failures.
"""

from __future__ import annotations

import operator
from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An object was constructed with invalid or inconsistent parameters.

    Examples include a Bernoulli sampling probability outside ``[0, 1]``, a
    reservoir of non-positive capacity, or a set system over an empty universe.
    """


def require_int(value: Any, what: str) -> int:
    """``value`` as a Python int; bools and non-integral values are rejected.

    Sizes such as stream lengths, capacities and windows count elements, so
    a float (even an integral-valued one), a string or a bool is a caller
    bug rather than a value to round.  NumPy integers are accepted.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigurationError(f"{what} must be an integer, got {value!r}")


class EmptySampleError(ReproError):
    """An operation that requires a non-empty sample was invoked on an empty one.

    The paper's notion of an epsilon-approximation (Definition 1.1) is only
    defined for non-empty samples; density queries against an empty sample
    raise this error instead of silently returning ``nan``.
    """


class StreamExhaustedError(ReproError):
    """An adversary was asked for more elements than its strategy can produce.

    The Figure-3 attack, for instance, maintains a shrinking working range
    ``[a_i, b_i]``; if the range collapses before the stream ends the attack
    has failed and this error is raised so the experiment can record it.
    """


class UniverseError(ReproError):
    """An element outside the declared universe was submitted to a component."""


class TrackerUnsupportedError(ReproError):
    """An incremental discrepancy tracker cannot handle the supplied data.

    Raised when a stream or sample element cannot be indexed by the tracker's
    data structure (outside the universe, non-integral, too large for a dense
    array).  Game runners catch this and fall back to the batch
    ``max_discrepancy`` recomputation, so the error is a routing signal, not
    a failure.
    """


class ExperimentError(ReproError):
    """An experiment was configured with parameters that cannot be executed."""
