"""Exception types shared across the package."""

from __future__ import annotations


class FeasibilityError(Exception):
    """A construction has no solution for the given data.

    Carries optional structured context: ``level`` is the recursion depth
    at which a staged construction failed (0 is the outermost level), and
    ``condition`` names the violated requirement.
    """

    def __init__(self, message, *, level=None, condition=None):
        super().__init__(message)
        self.level = level
        self.condition = condition


class ConvergenceError(RuntimeError):
    """A numerical routine did not converge: inverse iteration hit its
    iteration cap, or LAPACK's eigenvalue solver failed."""


class CertificationError(RuntimeError):
    """A construction failed certification of its own output.

    This is always a bug in the library, never a property of the input.
    """

    def __init__(self, message, *, certificate=None):
        super().__init__(message)
        self.certificate = certificate
