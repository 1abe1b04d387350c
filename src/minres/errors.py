"""Exception types shared across the library, and its check of counts.

Every failure mode callers are expected to handle has its own class;
nothing in the library reports a best-effort result silently.
"""

import numbers


class MinresError(Exception):
    """Base class for all library errors."""


class ExprSyntaxError(MinresError):
    """Malformed expression text.

    Carries the byte offset (UTF-8) of the failure and the token kinds
    that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected=()):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset
        self.expected = tuple(expected)


class UnknownIdentifier(MinresError):
    """Identifier outside the expression vocabulary."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} at byte {offset}")
        self.name = name
        self.offset = offset


class DomainError(MinresError):
    """An operand left a function's domain during evaluation."""

    def __init__(self, u, where: str, reason: str = ""):
        detail = f" ({reason})" if reason else ""
        super().__init__(f"undefined at u={u!r} in {where}{detail}")
        self.u = u
        self.where = where


class InvalidParameter(MinresError):
    """A caller-supplied parameter is out of range or malformed."""


def check_counts(**counts) -> None:
    """Raise InvalidParameter unless each count is a Python or numpy
    integer; the caller checks its range."""
    for name, n in counts.items():
        if not isinstance(n, numbers.Integral):
            raise InvalidParameter(f"{name} must be an integer, got {n!r}")


class NotUnimodal(MinresError):
    """The slope-efficiency curve has more than one local maximum."""

    def __init__(self, message: str, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


class AssumptionViolated(MinresError):
    """A structural assumption on the pressure pair fails."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NoConvergence(MinresError):
    """An iterative solve exhausted its budget or lost its bracket."""

    def __init__(self, message: str, bracket=None, residual=None):
        super().__init__(message)
        self.bracket = bracket
        self.residual = residual


class QuadratureFailure(MinresError):
    """Numerical integration could not certify the requested tolerance."""


class InfeasibleGrid(MinresError):
    """The brute-force grid cannot represent any admissible profile."""
