"""Exception types shared across the package."""


class FramecError(Exception):
    """Base class for all errors raised by framec."""


class NonFinite(FramecError):
    """A matrix contains NaN or infinite entries."""


class BadShape(FramecError):
    """Array dimensions are incompatible with the requested operation."""


class DimensionMismatch(BadShape):
    """Operands of a linear-algebra routine have incompatible shapes."""


class RankDeficient(FramecError):
    """A matrix required to have full rank does not."""


class NotAFrame(BadShape):
    """The columns of the matrix do not span the ambient space.

    rank is the numerical rank measured at the frame's tolerance, or
    None where it was not measured.
    """

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


class NotDualPair(FramecError):
    """The supposed dual pair fails F G* = I beyond tolerance."""


class NotZeroColumn(FramecError):
    """Column removal was requested at a position the dual family cannot zero out."""


class ParseError(FramecError):
    """A matrix file could not be parsed."""


class MixedField(FramecError):
    """Complex entries appeared in a context that only supports real data."""


class NotAFamily(FramecError):
    """The report does not describe a solution family, so it cannot be sampled."""
