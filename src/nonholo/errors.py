"""Shared exception hierarchy.

Every structured failure raised by this package derives from NonholoError so
callers (and the CLI) can distinguish expected validation/domain failures
from genuine bugs.
"""

import copyreg


class NonholoError(Exception):
    """Base class for all structured errors raised by this package."""

    def __reduce__(self):
        # rebuilt from its message and attributes, not through a subclass's
        # __init__, so an error raised in a worker process unpickles intact
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DomainError(NonholoError):
    """A numeric primitive was evaluated outside its domain.

    Carries the name of the offending primitive (``log``, ``division``, ...).
    """

    def __init__(self, primitive: str, detail: str = ""):
        self.primitive = primitive
        self.detail = detail
        msg = f"domain error in '{primitive}'"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class WidthMismatchError(NonholoError):
    """Two dual scalars from the same lift disagree on partials width.

    This is a programming error in the caller, not bad input data.
    """


class SingularMatrixError(NonholoError):
    """A dense linear solve met a (numerically) singular matrix."""


class ExpressionSyntaxError(NonholoError):
    """Malformed expression text; carries byte offset and expected tokens."""

    def __init__(self, offset: int, expected, found: str = ""):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        exp = " or ".join(self.expected)
        msg = f"syntax error at offset {offset}: expected {exp}"
        if found:
            msg += f", found {found!r}"
        super().__init__(msg)


class UnknownFunctionError(NonholoError):
    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown function '{name}' at offset {offset}")


class UnknownIdentifierError(NonholoError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown identifier '{name}'")


class StructuralError(NonholoError):
    """A system-definition file violates a structural rule."""


class NotSPDError(NonholoError):
    """The kinetic-energy matrix is not symmetric positive definite here."""


class RankDeficientError(NonholoError):
    """Constraint rows are linearly dependent at this configuration."""


class FrameInvalidError(NonholoError):
    """A user-supplied frame does not span the constraint distribution."""


class FrameDegenerateError(NonholoError):
    """The default frame construction is discontinuous at this point."""


class NotOnMError(NonholoError):
    """A phase point violates the momentum constraints beyond tolerance."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"point is off the constraint manifold: residual {residual:.3e} > {tol:.3e}"
        )


class SplittingDegenerateError(NonholoError):
    """The constrained tangent sub-bundle fails to be symplectic here."""


class InternalConsistencyError(NonholoError):
    """Two formulas that must agree to tolerance did not."""


class StepFailureError(NonholoError):
    """Integration aborted mid-run; carries the truncated trajectory."""

    def __init__(self, message: str, trajectory=None):
        self.trajectory = trajectory
        super().__init__(message)
