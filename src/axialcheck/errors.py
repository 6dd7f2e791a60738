"""Exception hierarchy shared by all axialcheck modules."""


class AxialError(Exception):
    """Base class for every error raised by this package."""


class ScalarSyntaxError(AxialError):
    """Malformed scalar or vector literal."""


class UnknownSymbol(AxialError):
    """A variable or basis label was used where it is not defined."""


class DivisionByZero(AxialError, ZeroDivisionError):
    """Division by the zero element of a field."""


class DescriptorMismatch(AxialError):
    """Operands belong to different fields."""


class DenominatorVanishes(AxialError):
    """Specialization sent a denominator to zero."""


class InvalidDescriptor(AxialError):
    """Field descriptor violates an invariant (char 2, composite p, reducible modulus, ...)."""


class DimensionMismatch(AxialError):
    """Vector or matrix dimensions are incompatible."""


class AmbientMismatch(AxialError):
    """Subspaces live in different ambient spaces."""


class NotIdempotent(AxialError):
    """Claimed axis fails a*a = a."""


class NotSemisimple(AxialError):
    """Eigenspace parts do not sum directly to the whole algebra."""


class InvolutionMismatch(AxialError):
    """Supplied flip is not an involution fixing the axis."""


class MiyamotoNotAutomorphism(AxialError):
    """The sign map of a decomposition fails multiplicativity (fusion grading broken)."""


class NotAnIdeal(AxialError):
    """Quotient requested by a subspace that is not an ideal."""


class DataInconsistency(AxialError):
    """Data contradict a required structure (e.g. generator images that do not extend)."""


class ConstraintViolation(AxialError):
    """Catalog entry instantiated at inadmissible field/parameter."""


class UnknownEntry(AxialError):
    """Catalog lookup of an undefined entry name."""


class AlgebraFileError(AxialError):
    """Structurally invalid algebra file."""
