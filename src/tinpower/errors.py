"""Exception types shared across the package."""

from __future__ import annotations


class ChannelValidationError(ValueError):
    """A channel violates a structural invariant (dimensions, sign, emptiness).

    ``receiver`` and ``state`` locate it when known, from 0; its message counts from 1.
    """

    def __init__(self, message, *, receiver=None, state=None):
        super().__init__(message)
        self.receiver = receiver
        self.state = state


class GuardExceededError(ValueError):
    """Requested combinatorial work above the configured safety guard."""


class EmptyRegionError(ValueError):
    """The polyhedral region is empty; the requested optimum does not exist."""


class InfeasibleTargetError(ValueError):
    """GDoF target outside the polyhedral region.

    Carries the feasibility test's witness: the circuit ``cycle``, its
    strictly negative ``cycle_length`` and the region ``bound`` it violates.
    """

    def __init__(self, message, *, cycle=None, cycle_length=None, bound=None):
        super().__init__(message)
        self.cycle = cycle
        self.cycle_length = cycle_length
        self.bound = bound


class CertificateError(RuntimeError):
    """A verdict's certificate failed its check: the program is at fault."""


class NonConvergenceError(RuntimeError):
    """Fixed-point iteration hit its cap without reaching an exact fixed point."""

    def __init__(self, message, *, trace=None):
        super().__init__(message)
        self.trace = trace
