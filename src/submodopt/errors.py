"""Exception types shared across the package.

A bad input raises a plain ``ValueError`` (CLI exit code 1); a
``SubmodoptError`` means a computation on valid inputs failed (exit code 2).
"""


class SubmodoptError(Exception):
    """Base class of the errors of a failed computation (CLI exit code 2)."""


class CapExceeded(SubmodoptError):
    """An exhaustive 2**p enumeration was requested beyond the configured cap."""


class NumericalInconsistency(SubmodoptError):
    """Two redundant computations disagreed beyond tolerance.

    Usually means a grouping or membership tolerance was too loose or too
    tight for the data at hand.
    """


class NoConvergence(SubmodoptError):
    """An iterative solver hit its iteration cap before reaching tolerance.

    The best iterate found so far is attached as ``result`` (solver-specific
    object) when available, with its residual gap flagged in the message.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class Unbounded(SubmodoptError):
    """A line search direction never leaves the polyhedron."""


class RecursionOverflow(SubmodoptError):
    """Internal bug guard: the decomposition recursed deeper than p levels."""

